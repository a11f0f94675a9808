//! Generation arenas: recycled per-generation buffer storage.
//!
//! One C-VDPS generation churns through a family of short-lived `Vec`s —
//! dedup-table key/value arrays, frontier mask/slot storage, per-worker
//! validation scratch — whose sizes repeat almost exactly from generation
//! to generation (the workload is the same centers round after round).
//! Allocating them fresh each time costs a malloc/free pair per buffer
//! per layer; under a daemon serving one solve per tick that is pure
//! overhead.
//!
//! This module provides a tiny recycling arena instead: a per-thread
//! free-list of typed buffers. A generation *takes* buffers at the start
//! of each layer and *puts* them back once the layer (or the emission
//! pass) is done, so in steady state every take is served from the free
//! list and the hot path performs **zero heap allocations** — the arena
//! is "reset per generation" simply by every buffer returning to the
//! list. Buffers keep their capacity across cycles, so the retained
//! footprint climbs for the first generation and then stabilizes; the
//! high-water mark is observable through [`stats`] and asserted stable
//! by the steady-state proptests.
//!
//! The arena is thread-local on purpose: flat-engine expansion chunks
//! run on [`crate::pool::WorkerPool`] threads, and a per-thread free
//! list gives each of them lock-free recycling without any sharing.
//! Buffers that migrate across threads (sorted shards consumed by merge
//! jobs) are simply dropped where they land — recycling is best-effort
//! on the parallel path and exact on the sequential one, which is also
//! the path the zero-allocation tests pin.

use std::cell::RefCell;

/// A free-list of reusable `Vec<T>` buffers of one element type.
#[derive(Debug)]
pub struct Recycler<T> {
    free: Vec<Vec<T>>,
    /// Elements of capacity currently retained across free buffers.
    retained: usize,
    /// Peak of `retained` ever observed (elements).
    high_water: usize,
    /// Takes that could not be served from the free list.
    misses: u64,
}

impl<T> Default for Recycler<T> {
    fn default() -> Self {
        Self {
            free: Vec::new(),
            retained: 0,
            high_water: 0,
            misses: 0,
        }
    }
}

impl<T> Recycler<T> {
    /// Takes a cleared buffer with at least `min_capacity` capacity,
    /// preferring a recycled one. Falls back to a fresh allocation (a
    /// *miss*) only when the free list is empty.
    #[must_use]
    pub fn take(&mut self, min_capacity: usize) -> Vec<T> {
        // Prefer the most recently returned buffer that already fits;
        // deterministic call sequences then map buffers consistently
        // from generation to generation and capacities stop growing.
        let pick = self
            .free
            .iter()
            .rposition(|b| b.capacity() >= min_capacity)
            .or(if self.free.is_empty() {
                None
            } else {
                Some(self.free.len() - 1)
            });
        match pick {
            Some(i) => {
                let mut buf = self.free.swap_remove(i);
                self.retained -= buf.capacity();
                buf.clear();
                buf.reserve(min_capacity);
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(min_capacity)
            }
        }
    }

    /// Returns a buffer to the free list for the next generation.
    pub fn put(&mut self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        self.retained += buf.capacity();
        self.high_water = self.high_water.max(self.retained);
        self.free.push(buf);
    }
}

/// The per-thread generation arena: one [`Recycler`] per buffer type the
/// hot paths use. Fields are crate-internal; observability goes through
/// [`stats`].
#[derive(Debug, Default)]
pub(crate) struct GenArena {
    pub(crate) masks: Recycler<u128>,
    pub(crate) folds: Recycler<u64>,
    pub(crate) indices: Recycler<u32>,
    pub(crate) floats: Recycler<f64>,
    pub(crate) slots: Recycler<crate::dedup::Slot>,
}

/// A snapshot of one thread's arena accounting, in bytes / counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Peak retained capacity across all free lists, in bytes.
    pub high_water_bytes: usize,
    /// Capacity currently parked on the free lists, in bytes.
    pub retained_bytes: usize,
    /// Takes that had to allocate because the free list was empty.
    pub misses: u64,
}

impl GenArena {
    fn stats(&self) -> ArenaStats {
        use std::mem::size_of;
        fn acc<T>(r: &Recycler<T>) -> (usize, usize, u64) {
            (
                r.high_water * size_of::<T>(),
                r.retained * size_of::<T>(),
                r.misses,
            )
        }
        let parts = [
            acc(&self.masks),
            acc(&self.folds),
            acc(&self.indices),
            acc(&self.floats),
            acc(&self.slots),
        ];
        let mut s = ArenaStats::default();
        for (hw, ret, miss) in parts {
            s.high_water_bytes += hw;
            s.retained_bytes += ret;
            s.misses += miss;
        }
        s
    }
}

thread_local! {
    static ARENA: RefCell<GenArena> = RefCell::new(GenArena::default());
}

/// Runs `f` with this thread's arena. Borrows are short and never nested:
/// callers take buffers, release the borrow, work, and put them back in a
/// separate call.
pub(crate) fn with<R>(f: impl FnOnce(&mut GenArena) -> R) -> R {
    ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// Accounting snapshot of the *current thread's* arena. Sequential
/// generation (no [`crate::pool::TaskScope`]) runs entirely on the
/// calling thread, so tests can observe the steady state here.
#[must_use]
pub fn stats() -> ArenaStats {
    with(|a| a.stats())
}

/// Drops every recycled buffer of the current thread's arena and resets
/// the accounting. Test isolation hook.
pub fn clear() {
    with(|a| *a = GenArena::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_cycle_reuses_capacity() {
        let mut r: Recycler<u64> = Recycler::default();
        let mut buf = r.take(100);
        assert_eq!(r.misses, 1);
        buf.extend(0..100u64);
        let cap = buf.capacity();
        r.put(buf);
        assert_eq!(r.retained, cap);
        let again = r.take(50);
        assert_eq!(r.misses, 1, "second take must be served from the list");
        assert!(again.capacity() >= cap);
        assert!(again.is_empty());
        assert_eq!(r.retained, 0);
    }

    #[test]
    fn take_prefers_fitting_buffer() {
        let mut r: Recycler<u64> = Recycler::default();
        let small = r.take(8);
        let big = r.take(1024);
        let big_cap = big.capacity();
        r.put(big);
        r.put(small);
        // LIFO would hand back `small`; the fit scan must find `big`.
        let got = r.take(512);
        assert!(got.capacity() >= big_cap.min(512));
        assert_eq!(r.misses, 2);
    }

    #[test]
    fn high_water_tracks_peak_retention() {
        let mut r: Recycler<u8> = Recycler::default();
        r.put(Vec::with_capacity(64));
        r.put(Vec::with_capacity(32));
        assert_eq!(r.high_water, 96);
        let _ = r.take(1);
        let _ = r.take(1);
        assert_eq!(r.retained, 0);
        assert_eq!(r.high_water, 96, "high water never decreases");
    }

    #[test]
    fn thread_local_stats_roundtrip() {
        clear();
        assert_eq!(stats(), ArenaStats::default());
        with(|a| {
            let b = a.masks.take(16);
            a.masks.put(b);
        });
        let s = stats();
        assert!(s.high_water_bytes >= 16 * 16);
        assert_eq!(s.misses, 1);
        clear();
    }
}
