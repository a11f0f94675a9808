//! The host's speed, measured by a fixed reference kernel.
//!
//! On a shared virtual machine the same solve of the same snapshot takes
//! anywhere from 48 to 91 ms, in phases that last from seconds to minutes,
//! because other tenants contend for the host's cores and caches. Two sets
//! of runs made minutes apart then disagree by more than any useful bound.
//!
//! Every timed round or day is therefore followed by one run of
//! [`kernel`], whose code never changes, and every set-up repetition by
//! nine. A time is reported in *reference* milliseconds: the measured time
//! times [`REFERENCE_MS`] over the kernel's time around it. A faster
//! program shows as a smaller time exactly as on a quiet machine; a slower
//! host slows the kernel too and cancels out. The kernel does what the solver
//! does most — small allocations, sorting, bit masks and hash-set probes —
//! because a kernel of plain arithmetic or of pointer chasing tracked the
//! solver's slow phases poorly.

use crate::report::median;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// About the kernel's time on a 2-vCPU Xeon virtual machine, in ms: the
/// unit of every reference time. Changing it rescales every time metric.
pub const REFERENCE_MS: f64 = 5.0;

/// Kernel samples on each side of a unit of work that its scale uses.
const WINDOW: usize = 4;

/// Kernel runs after each set-up repetition, and for `host.kernel_ms`.
const SETUP_SAMPLES: usize = 9;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The fixed reference work: short vectors allocated, sorted and retired
/// from a pool of live ones, then triples of overlapping bit masks
/// deduplicated in a hash set.
fn kernel() -> u64 {
    let mut x = black_box(7u64);
    let mut acc = 0u64;
    let mut live: Vec<Vec<u32>> = Vec::new();
    for _ in 0..10_000 {
        let r = xorshift(&mut x);
        let n = (r % 24) as usize + 1;
        let mut v: Vec<u32> = (0..n as u32).map(|i| (r >> (i % 32)) as u32 ^ i).collect();
        v.sort_unstable();
        acc += u64::from(v[n / 2]);
        live.push(v);
        if live.len() > 2000 {
            live.swap_remove((r % 2000) as usize);
        }
    }
    let items: Vec<u64> = (0..64)
        .map(|_| {
            let r = xorshift(&mut x);
            r | (1 << (r % 64))
        })
        .collect();
    let mut seen = HashSet::new();
    for a in 0..64 {
        for b in a + 1..64 {
            if items[a] & items[b] == 0 {
                continue;
            }
            for c in b + 1..64 {
                if (items[a] ^ items[c]) & items[b] != 0 {
                    let mask = (1u64 << a) | (1 << b) | (1 << c);
                    if seen.insert(mask) {
                        acc = acc.wrapping_add(u64::from(mask.count_ones()) * items[c]);
                    }
                }
            }
        }
    }
    acc ^ seen.len() as u64 ^ live.len() as u64
}

/// Wall time of one kernel run, in ms.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel samples, one after each unit of work, in order.
#[derive(Default)]
pub struct HostClock {
    samples: Vec<f64>,
}

impl HostClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the kernel once, after the unit of work just timed.
    pub fn tick(&mut self) {
        self.samples.push(kernel_ms());
    }

    /// Reference time of the unit of work that preceded tick `i`, from its
    /// measured time: the median kernel sample within [`WINDOW`] ticks of
    /// it sets the scale.
    pub fn reference(&self, i: usize, measured: f64) -> f64 {
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + WINDOW + 1).min(self.samples.len());
        measured * REFERENCE_MS / median(&self.samples[lo..hi])
    }
}

/// Median of [`SETUP_SAMPLES`] kernel runs made now, in ms.
pub fn kernel_median_ms() -> f64 {
    let samples: Vec<f64> = (0..SETUP_SAMPLES).map(|_| kernel_ms()).collect();
    median(&samples)
}

/// Reference time of one set-up repetition, from its measured time,
/// scaled by the kernel runs made right after it.
pub fn setup_reference(measured: f64) -> f64 {
    measured * REFERENCE_MS / kernel_median_ms()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_uses_the_median_kernel_sample_around_each_tick() {
        let mut samples = vec![10.0; 5];
        samples.extend([2.5; 9]);
        let clock = HostClock { samples };
        assert_eq!(clock.reference(0, 8.0), 4.0);
        assert_eq!(clock.reference(13, 8.0), 16.0);
    }
}
