//! Branch-light scan kernels over a worker's valid strategies.
//!
//! The equilibrium hot loops ask one question over and over: *given the
//! union of everyone else's taken delivery points, which of this
//! worker's strategies are still open, and which open one pays the most?*
//! A strategy is open when its `u128` DP mask does not intersect the taken
//! mask. A [`WorkerRows`] holds a worker's valid strategies as one prefix
//! per row length of the sorted pool (see [`crate::strategy`]), with no
//! payoff column: the kernels compute payoffs on demand with
//! [`fta_core::payoff::payoff_from_parts`], and a `Bracket` settles most
//! comparisons against a known payoff with one multiply instead of a
//! division. They work in chunks of [`LANES`] rows, classified without a
//! branch per lane, so one branch skips a chunk the bracket rules out.
//! The monotone best response ([`best_open`]) breaks payoff ties to the
//! lowest pool index, whatever the scan order, and it and IEGT's
//! strictly-better sweep ([`for_each_better`]) skip a prefix whose reach
//! (the union of its masks) the taken mask covers.
//!
//! The work counters the game loops report come from that reach test and
//! nothing else: [`reach_work`] sums the rows of the prefixes a pass walks
//! and flags a pass that skipped a non-empty prefix, one test per row
//! length. No kernel ranks a row or counts rows for the counters' sake.
//!
//! [`for_each_open_chunked`] splits every `u128` into its two `u64` limbs
//! (`m & t == 0` iff `(m_lo & t_lo) | (m_hi & t_hi) == 0`) and reduces a
//! chunk's conflict tests into one `open` bitmap.
//!
//! The kernels are proptested against plain loops that divide every
//! candidate (the references live in the test files), and
//! `hotpath_snapshot` benchmarks them head-to-head against such loops.

use crate::strategy::WorkerRows;
use std::ops::Range;

/// Candidates per chunk. Eight `u128`s is 128 bytes — two cache lines —
/// and gives the reduction enough lanes to fill 2×64-bit vector ALUs.
pub const LANES: usize = 8;

/// Per-lane open bitmap of one chunk: bit `k` is set iff `chunk[k]` does
/// not intersect the taken mask. Branch-free across lanes; the
/// fixed-size chunk lets the loop fully unroll into straight-line
/// AND/OR/compare lanework.
#[inline]
fn open_bitmap(chunk: &[u128; LANES], t_lo: u64, t_hi: u64) -> u32 {
    let mut open = 0u32;
    for (k, &m) in chunk.iter().enumerate() {
        let conflict = ((m as u64) & t_lo) | (((m >> 64) as u64) & t_hi);
        open |= u32::from(conflict == 0) << k;
    }
    open
}

/// Relative margin under which [`Bracket`] declines to decide: far above
/// the few ulps of rounding in its two products, so a decision it does
/// make is exact.
const MARGIN: f64 = 1e-9;

/// Compares a row's payoff `reward / t` (`t` = the worker's travel to the
/// center plus the row's travel, the denominator of
/// [`fta_core::payoff::payoff_from_parts`]) against a fixed payoff `p`
/// without dividing.
///
/// With `p` positive and normal, `lo = p·(1−1e-9)` and `hi = p·(1+1e-9)`:
/// when `lo·t` is a positive normal number (so `t > 0` and the products
/// carry relative rounding errors of a few ulps), `reward > hi·t` proves
/// the divided payoff is strictly above `p`, and `reward < lo·t` proves it
/// strictly below. Everything else — a row within the margin, a
/// non-positive or NaN `t`, a non-finite or non-positive `p` (both bounds
/// are then NaN) — is left to the exact division.
#[derive(Debug, Clone, Copy)]
struct Bracket {
    lo: f64,
    hi: f64,
}

impl Bracket {
    fn around(p: f64) -> Self {
        if p.is_normal() && p > 0.0 {
            Self {
                lo: p * (1.0 - MARGIN),
                hi: p * (1.0 + MARGIN),
            }
        } else {
            Self {
                lo: f64::NAN,
                hi: f64::NAN,
            }
        }
    }

    /// `(certainly above p, certainly below p)` for `reward / t`.
    #[inline]
    fn classify(self, reward: f64, t: f64) -> (bool, bool) {
        let lt = self.lo * t;
        let sure = lt >= f64::MIN_POSITIVE;
        (sure & (reward > self.hi * t), sure & (reward < lt))
    }
}

/// One valid prefix of a worker's rows as local slices, so the kernels'
/// loops keep every column and scalar in registers. Each kernel runs
/// whole chunks of [`LANES`] rows branch-free, then a scalar tail.
struct Prefix<'a> {
    /// Sorted position of the prefix's first row.
    start: usize,
    pool_idx: &'a [u32],
    masks: &'a [u128],
    rewards: &'a [f64],
    travels: &'a [f64],
    to_dc: f64,
}

impl<'a> Prefix<'a> {
    /// The valid prefixes of `rows` that may hold a row open against
    /// `taken`; a prefix its reach proves closed is skipped whole.
    fn open(rows: &WorkerRows<'a>, taken: u128) -> impl Iterator<Item = Self> + 'a {
        Self::over(rows, rows.open_ranges(taken))
    }

    fn over(
        rows: &WorkerRows<'a>,
        ranges: impl Iterator<Item = Range<usize>> + 'a,
    ) -> impl Iterator<Item = Self> + 'a {
        let rows = *rows;
        ranges.map(move |r| Self {
            start: r.start,
            pool_idx: &rows.pool_idx[r.clone()],
            masks: &rows.masks[r.clone()],
            rewards: &rows.rewards[r.clone()],
            travels: &rows.travels[r],
            to_dc: rows.to_dc,
        })
    }

    /// Rows in whole chunks of [`LANES`]; the rest is the scalar tail.
    fn full(&self) -> usize {
        self.rewards.len() - self.rewards.len() % LANES
    }

    /// The chunk from `base`: rewards and route travel times.
    #[inline]
    fn chunk(&self, base: usize) -> (&[f64; LANES], &[f64; LANES]) {
        let lanes = |column: &'a [f64]| -> &'a [f64; LANES] {
            column[base..base + LANES]
                .try_into()
                .expect("chunk is LANES wide")
        };
        (lanes(self.rewards), lanes(self.travels))
    }

    /// [`Bracket::classify`] for the row at `k`.
    #[inline]
    fn classify(&self, bracket: Bracket, k: usize) -> (bool, bool) {
        bracket.classify(self.rewards[k], self.to_dc + self.travels[k])
    }

    #[inline]
    fn payoff(&self, k: usize) -> f64 {
        fta_core::payoff::payoff_from_parts(self.rewards[k], self.travels[k], self.to_dc)
    }
}

/// The running maximum of [`best_open`].
struct Best {
    pos: Option<usize>,
    payoff: f64,
    idx: u32,
    bracket: Bracket,
}

impl Best {
    /// Offers row `k` of `prefix` unless it is closed: a higher payoff
    /// wins, or an equal one at a lower pool index. Before the first
    /// winner the index test `idx < 0` is false, so a NaN or −∞ payoff
    /// never wins.
    #[inline]
    fn offer(&mut self, prefix: &Prefix<'_>, k: usize, taken: u128) {
        if prefix.masks[k] & taken == 0 {
            let (p, idx) = (prefix.payoff(k), prefix.pool_idx[k]);
            if p > self.payoff || (p == self.payoff && idx < self.idx) {
                self.pos = Some(prefix.start + k);
                (self.payoff, self.idx) = (p, idx);
                self.bracket = Bracket::around(p);
            }
        }
    }
}

/// The worker's best open strategy: among the valid rows whose mask does
/// not intersect `taken`, the highest payoff, ties to the lowest pool
/// index (the first strict maximum of an ascending pool-index scan).
/// Returns its sorted position and payoff.
///
/// A prefix whose reach lies inside `taken` is skipped before any of its
/// rows is read, so a worker with nothing open costs one test per row
/// length. Within the other prefixes, per chunk of [`LANES`] rows, the
/// lanes the running maximum certainly out-pays (a `Bracket`, one
/// multiply per lane) are dropped before the availability test; a chunk
/// of them costs one branch, and only open survivors are divided.
#[must_use]
pub fn best_open(rows: &WorkerRows<'_>, taken: u128) -> Option<(usize, f64)> {
    let mut best = Best {
        pos: None,
        payoff: f64::NEG_INFINITY,
        idx: 0,
        bracket: Bracket::around(f64::NAN),
    };
    for prefix in Prefix::open(rows, taken) {
        let full = prefix.full();
        for base in (0..full).step_by(LANES) {
            let (rewards, travels) = prefix.chunk(base);
            let mut below = [false; LANES];
            for k in 0..LANES {
                below[k] = best
                    .bracket
                    .classify(rewards[k], prefix.to_dc + travels[k])
                    .1;
            }
            if !below.iter().all(|&b| b) {
                for (k, &b) in below.iter().enumerate() {
                    if !b {
                        best.offer(&prefix, base + k, taken);
                    }
                }
            }
        }
        for k in full..prefix.rewards.len() {
            if !prefix.classify(best.bracket, k).1 {
                best.offer(&prefix, k, taken);
            }
        }
    }
    best.pos.map(|pos| (pos, best.payoff))
}

/// Calls `f(pos, payoff)` for every valid row that does not intersect
/// `taken` and pays strictly more than `threshold`, in sorted order.
///
/// One pass in chunks of [`LANES`] over the prefixes that may hold an
/// open row (a prefix its reach proves closed is skipped whole): a
/// `Bracket` drops the lanes certainly at or below the threshold with one
/// multiply each, the rest are tested for availability, and only the
/// open ones are divided.
pub fn for_each_better(
    rows: &WorkerRows<'_>,
    threshold: f64,
    taken: u128,
    mut f: impl FnMut(usize, f64),
) {
    let bracket = Bracket::around(threshold);
    for prefix in Prefix::open(rows, taken) {
        let mut visit = |k: usize| {
            if prefix.masks[k] & taken == 0 {
                let p = prefix.payoff(k);
                if p > threshold {
                    f(prefix.start + k, p);
                }
            }
        };
        let full = prefix.full();
        for base in (0..full).step_by(LANES) {
            let (rewards, travels) = prefix.chunk(base);
            let mut below = [false; LANES];
            for k in 0..LANES {
                below[k] = bracket.classify(rewards[k], prefix.to_dc + travels[k]).1;
            }
            if !below.iter().all(|&b| b) {
                for (k, &b) in below.iter().enumerate() {
                    if !b {
                        visit(base + k);
                    }
                }
            }
        }
        for k in full..prefix.rewards.len() {
            if !prefix.classify(bracket, k).1 {
                visit(k);
            }
        }
    }
}

/// The work one pass of [`best_open`] or [`for_each_better`] does over a
/// worker's rows: the counters behind `BestResponseStats`'
/// `candidates_scanned` and `early_exits`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanWork {
    /// Rows in the valid prefixes that passed the reach test: the rows
    /// the pass walked.
    pub scanned: u64,
    /// Whether the reach test skipped at least one non-empty prefix.
    pub skipped_prefix: bool,
}

/// The [`ScanWork`] of a pass over `rows` against `taken`: one reach test
/// per row length, no row read.
#[must_use]
pub fn reach_work(rows: &WorkerRows<'_>, taken: u128) -> ScanWork {
    let mut work = ScanWork::default();
    for range in rows.ranges() {
        if rows.may_open(&range, taken) {
            work.scanned += range.len() as u64;
        } else {
            work.skipped_prefix |= !range.is_empty();
        }
    }
    work
}

/// Calls `f(pos)` for every mask in `masks[..limit]` that does not
/// intersect `taken`, ascending: one branch per [`LANES`] candidates plus
/// a trailing-zeros walk of the chunk's open bitmap.
#[inline]
pub fn for_each_open_chunked(masks: &[u128], limit: usize, taken: u128, mut f: impl FnMut(usize)) {
    let t_lo = taken as u64;
    let t_hi = (taken >> 64) as u64;
    let mut chunks = masks[..limit].chunks_exact(LANES);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let chunk: &[u128; LANES] = chunk.try_into().expect("chunks_exact yields LANES");
        let mut open = open_bitmap(chunk, t_lo, t_hi);
        while open != 0 {
            f(base + open.trailing_zeros() as usize);
            open &= open - 1;
        }
        base += LANES;
    }
    for (k, &m) in chunks.remainder().iter().enumerate() {
        if m & taken == 0 {
            f(base + k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift stream for mask fixtures.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    fn mask_fixture(len: usize, seed: u64, density_shift: u32) -> (Vec<u128>, u128) {
        let mut next = stream(seed);
        let masks: Vec<u128> = (0..len)
            .map(|_| {
                let m = (u128::from(next()) << 64 | u128::from(next())) >> density_shift;
                if m == 0 {
                    1
                } else {
                    m
                }
            })
            .collect();
        let taken = u128::from(next()) << 64 | u128::from(next());
        (masks, taken)
    }

    #[test]
    fn for_each_open_kernels_agree() {
        for len in [0usize, 5, 8, 13, 64, 130] {
            let (masks, taken) = mask_fixture(len, 7, 100);
            for limit in [0, len / 2, len] {
                let mut a = Vec::new();
                let mut b = Vec::new();
                a.extend((0..limit).filter(|&p| masks[p] & taken == 0));
                for_each_open_chunked(&masks, limit, taken, |p| b.push(p));
                assert_eq!(a, b, "len {len} limit {limit}");
            }
        }
    }

    /// The running OR of `masks`: the reach column of one bucket.
    fn running_or(masks: &[u128]) -> Vec<u128> {
        masks
            .iter()
            .scan(0, |u, &m| {
                *u |= m;
                Some(*u)
            })
            .collect()
    }

    /// Rows paying `rewards` exactly (travel 1, worker at the center),
    /// with their pool indices scrambled against the sorted order.
    fn rows<'a>(
        rewards: &'a [f64],
        pool_idx: &'a [u32],
        masks: &'a [u128],
        reach: &'a [u128],
    ) -> WorkerRows<'a> {
        WorkerRows {
            pool_idx,
            masks,
            reach,
            rewards,
            travels: &[1.0; 8][..rewards.len()],
            starts: &[0],
            ends: std::slice::from_ref(&[0, 1, 2, 3, 4, 5, 6, 7, 8][rewards.len()]),
            to_dc: 0.0,
        }
    }

    #[test]
    fn ties_go_to_the_lowest_pool_index_and_work_is_counted_per_prefix() {
        let rewards = [2.0, 5.0, 2.0, 7.0, 2.0];
        let pool_idx = [4, 1, 0, 3, 2];
        let reach = running_or(&[1; 5]);
        let r = rows(&rewards, &pool_idx, &[1; 5], &reach);
        assert_eq!(best_open(&r, 0b1), None, "every row closed");
        let skipped = ScanWork {
            scanned: 0,
            skipped_prefix: true,
        };
        assert_eq!(reach_work(&r, 0b1), skipped);
        // The tie goes to the lowest pool index whatever the scan order.
        let open: Vec<u128> = vec![1, 2, 1, 2, 1];
        let reach = running_or(&open);
        let r = rows(&rewards, &pool_idx, &open, &reach);
        assert_eq!(best_open(&r, 0b10), Some((2, 2.0)));
        let walked = ScanWork {
            scanned: 5,
            skipped_prefix: false,
        };
        assert_eq!(reach_work(&r, 0b10), walked);
        assert_eq!(best_open(&r, 0b11), None, "reach covered: prefix skipped");
        assert_eq!(reach_work(&r, 0b11), skipped);
        let better = |threshold| {
            let mut open = Vec::new();
            for_each_better(&r, threshold, 0b10, |pos, p| open.push((pos, p)));
            open
        };
        assert_eq!(better(2.0), vec![]);
        let all_twos = vec![(0, 2.0), (2, 2.0), (4, 2.0)];
        assert_eq!(better(1.999_999_999_999), all_twos);
    }

    #[test]
    fn bracket_decides_only_outside_the_margin() {
        let b = Bracket::around(2.0);
        assert_eq!(b.classify(4.1, 2.0), (true, false));
        assert_eq!(b.classify(3.9, 2.0), (false, true));
        // Within 1e-9 of the payoff, and on the payoff itself: divide.
        assert_eq!(b.classify(4.0, 2.0), (false, false));
        assert_eq!(b.classify(4.0 * (1.0 + 1e-10), 2.0), (false, false));
        // Non-positive or NaN denominators and subnormal products: divide.
        for t in [0.0, -1.0, f64::NAN, 1e-310] {
            assert_eq!(b.classify(1.0, t), (false, false), "t = {t}");
        }
        // Non-finite, zero, negative or subnormal payoffs: always divide.
        for p in [0.0, -1.0, f64::INFINITY, f64::NAN, 1e-310] {
            assert_eq!(
                Bracket::around(p).classify(1.0, 1.0),
                (false, false),
                "p = {p}"
            );
        }
    }
}
