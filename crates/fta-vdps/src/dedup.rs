//! The flat engine's open-addressed mask-deduplication table.
//!
//! One expansion chunk funnels every candidate extension through a
//! `u128 mask → group` table: the first sighting of a mask allocates a
//! dense group of DP slots, later sightings relax the existing slots.
//! This used to live inside `flat.rs` as `ShardTable`; it is split out
//! (and its probe loop rewritten) so the calibration bench can measure
//! it head-to-head against the scalar reference and so the strategy
//! layer can share the prefix-mask rank table.
//!
//! Three micro-structural changes over the PR-2 table:
//!
//! * **Limb-split keys, batched probe.** Keys are stored as separate
//!   `lo`/`hi` `u64` limb arrays. A probe walks the cluster
//!   [`PROBE_LANES`] buckets at a time: per lane, *match* is
//!   `((lo ^ m_lo) | (hi ^ m_hi)) == 0` and *empty* is
//!   `(lo | hi) == 0` (a VDPS mask is never 0), both reduced into one
//!   stop bitmap with no branch per lane — consecutive buckets share
//!   cache lines, so the extra lanes are nearly free and clustered
//!   misses stop costing a mispredict each.
//! * **Stored folds.** The 64-bit fold of each group's mask is computed
//!   once at first insertion and kept (`folds`), so a rehash re-inserts
//!   every group without recomputing `fold_mask` — and surfaces how
//!   often that happens as the `vdps.dedup_rehashes` counter next to
//!   `vdps.dedup_probes`.
//! * **Precomputed prefix masks.** [`rank`] indexes a compile-time
//!   table of `(1 << j) - 1` prefixes instead of materialising the
//!   wide shift in the inner relax loop.
//!
//! Bucket count, hash function, and probe order are unchanged, so probe
//! sequences — and the `vdps.dedup_probes` values observability tests
//! see — are identical to the historical table.

use crate::arena;

/// Buckets examined per probe iteration. Four buckets are 32 bytes of
/// each limb array — half a cache line per array.
pub const PROBE_LANES: usize = 4;

/// Compile-time table of prefix masks: `PREFIX_MASK[j] == (1 << j) - 1`.
pub const PREFIX_MASK: [u128; 128] = {
    let mut t = [0u128; 128];
    let mut j = 1;
    while j < 128 {
        t[j] = (t[j - 1] << 1) | 1;
        j += 1;
    }
    t
};

/// Compile-time table of single-bit masks: `BIT[j] == 1 << j`.
pub const BIT: [u128; 128] = {
    let mut t = [0u128; 128];
    let mut j = 0;
    while j < 128 {
        t[j] = 1u128 << j;
        j += 1;
    }
    t
};

/// Number of set bits of `mask` strictly below bit `j` — the dense slot
/// index of member `j` within its mask group.
#[inline]
#[must_use]
pub fn rank(mask: u128, j: usize) -> usize {
    (mask & PREFIX_MASK[j]).count_ones() as usize
}

/// One dynamic-program slot: minimal arrival time at the slot's member
/// over all feasible orderings, plus the predecessor (`pre`) index and
/// where the predecessor's state lives. `arrival == f64::INFINITY` marks
/// an empty slot. Sixteen bytes: `group` sits in the padding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Minimal arrival time at this member.
    pub arrival: f64,
    /// Center-local index of the predecessor member (`u8::MAX` = none).
    pub parent: u8,
    /// Index of the source group (mask `mask & !bit(member)`) in the
    /// previous, mask-sorted layer — a function of the slot's mask and
    /// member, so it never takes part in [`Slot::beats`]. Route emission
    /// follows it to the predecessor's slot in O(1).
    pub group: u32,
}

/// The empty-slot sentinel.
pub const EMPTY: Slot = Slot {
    arrival: f64::INFINITY,
    parent: u8::MAX,
    group: u32::MAX,
};

impl Slot {
    /// The deterministic relaxation order: smaller arrival wins; on exact
    /// ties the smaller predecessor index wins. Min under this order is
    /// associative + commutative, which is what makes chunked/sharded
    /// merging order-independent. Equal `(arrival, parent)` in one slot
    /// imply equal `group`, so the order is total on slot contents.
    #[inline]
    #[must_use]
    pub fn beats(&self, other: &Slot) -> bool {
        self.arrival < other.arrival
            || (self.arrival == other.arrival && self.parent < other.parent)
    }
}

/// Xor-fold of a mask's limbs; the high half is mixed first so masks
/// differing only in high bits don't collide into identical low-bit
/// patterns.
#[inline]
#[must_use]
pub fn fold_mask(mask: u128) -> u64 {
    (mask as u64) ^ ((mask >> 64) as u64).wrapping_mul(0xA24B_AED4_963E_E407)
}

/// Inline multiply-shift bucket for a power-of-two table of `1 << bits`,
/// applied to an already-folded key.
#[inline]
fn bucket_of_fold(fold: u64, bits: u32) -> usize {
    (fold.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// Open-addressed `u128 mask → group index` table with dense slot
/// storage — the dedup structure of one expansion chunk.
pub struct DedupTable {
    size: usize,
    bits: u32,
    key_lo: Vec<u64>,
    key_hi: Vec<u64>,
    vals: Vec<u32>,
    /// Group masks in discovery order.
    masks: Vec<u128>,
    /// Fold of each group's mask, stored so rehashes never re-fold.
    folds: Vec<u64>,
    /// `masks.len() * size` slots, group-major.
    slots: Vec<Slot>,
    probes: u64,
    rehashes: u64,
}

impl DedupTable {
    /// A fresh table sized for `expected` groups of `size` slots each,
    /// with buffers allocated directly (bench / test entry point).
    #[must_use]
    pub fn with_expected(expected: usize, size: usize) -> Self {
        let cap = (expected.max(8) * 2).next_power_of_two();
        Self {
            size,
            bits: cap.trailing_zeros(),
            key_lo: vec![0u64; cap],
            key_hi: vec![0u64; cap],
            vals: vec![0u32; cap],
            masks: Vec::with_capacity(expected),
            folds: Vec::with_capacity(expected),
            slots: Vec::with_capacity(expected * size),
            probes: 0,
            rehashes: 0,
        }
    }

    /// Like [`DedupTable::with_expected`], but every buffer is taken from
    /// the calling thread's generation arena.
    #[must_use]
    pub(crate) fn from_arena(expected: usize, size: usize) -> Self {
        let cap = (expected.max(8) * 2).next_power_of_two();
        let (mut key_lo, mut key_hi, vals, masks, folds, slots) = arena::with(|a| {
            (
                a.folds.take(cap),
                a.folds.take(cap),
                a.indices.take(cap),
                a.masks.take(expected),
                a.folds.take(expected),
                a.slots.take(expected * size),
            )
        });
        key_lo.resize(cap, 0);
        key_hi.resize(cap, 0);
        let mut table = Self {
            size,
            bits: cap.trailing_zeros(),
            key_lo,
            key_hi,
            vals,
            masks,
            folds,
            slots,
            probes: 0,
            rehashes: 0,
        };
        table.vals.resize(cap, 0);
        table
    }

    /// Returns every buffer to the calling thread's generation arena.
    pub(crate) fn recycle(self) {
        arena::with(|a| {
            a.folds.put(self.key_lo);
            a.folds.put(self.key_hi);
            a.indices.put(self.vals);
            a.masks.put(self.masks);
            a.folds.put(self.folds);
            a.slots.put(self.slots);
        });
    }

    /// Number of distinct masks inserted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// True when no mask has been inserted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Probe steps taken by [`DedupTable::relax`] lookups (one per
    /// bucket logically examined, hit or miss) — the clustering
    /// diagnostic surfaced as `vdps.dedup_probes`.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Number of table rehashes (capacity doublings), surfaced as
    /// `vdps.dedup_rehashes`.
    #[must_use]
    pub fn rehashes(&self) -> u64 {
        self.rehashes
    }

    fn grow(&mut self) {
        self.rehashes += 1;
        let cap = self.key_lo.len() * 2;
        self.bits = cap.trailing_zeros();
        self.key_lo.clear();
        self.key_lo.resize(cap, 0);
        self.key_hi.clear();
        self.key_hi.resize(cap, 0);
        self.vals.clear();
        self.vals.resize(cap, 0);
        // Re-insert from the stored folds: no fold_mask recomputation,
        // and no key comparisons — every group is known distinct, so the
        // probe only needs the first empty bucket.
        for (g, (&mask, &fold)) in self.masks.iter().zip(&self.folds).enumerate() {
            let mut idx = bucket_of_fold(fold, self.bits);
            while self.key_lo[idx] | self.key_hi[idx] != 0 {
                idx = (idx + 1) & (cap - 1);
            }
            self.key_lo[idx] = mask as u64;
            self.key_hi[idx] = (mask >> 64) as u64;
            self.vals[idx] = g as u32;
        }
    }

    /// Inserts or relaxes the state of `mask` at slot `rank` with
    /// `cand`. `rank` must be `rank(mask, j)` of the ending member `j`.
    #[inline]
    pub fn relax(&mut self, mask: u128, rank: usize, cand: Slot) {
        debug_assert!(mask != 0, "a VDPS mask is never empty");
        debug_assert!(rank < self.size);
        // Keep load factor under 3/4.
        if (self.masks.len() + 1) * 4 >= self.key_lo.len() * 3 {
            self.grow();
        }
        let cap_mask = self.key_lo.len() - 1;
        let m_lo = mask as u64;
        let m_hi = (mask >> 64) as u64;
        let fold = fold_mask(mask);
        let mut idx = bucket_of_fold(fold, self.bits);
        loop {
            // Examine PROBE_LANES consecutive buckets branch-free: build
            // one stop bitmap (match or empty per lane), branch once.
            let mut stop = 0u32;
            let mut hit = 0u32;
            for k in 0..PROBE_LANES {
                let i = (idx + k) & cap_mask;
                let lo = self.key_lo[i];
                let hi = self.key_hi[i];
                let matched = ((lo ^ m_lo) | (hi ^ m_hi)) == 0;
                let empty = (lo | hi) == 0;
                stop |= u32::from(matched | empty) << k;
                hit |= u32::from(matched) << k;
            }
            if stop != 0 {
                let lane = stop.trailing_zeros();
                self.probes += u64::from(lane) + 1;
                let i = (idx + lane as usize) & cap_mask;
                if hit & (1 << lane) != 0 {
                    let slot = &mut self.slots[self.vals[i] as usize * self.size + rank];
                    if cand.beats(slot) {
                        *slot = cand;
                    }
                } else {
                    let group = self.masks.len() as u32;
                    self.key_lo[i] = m_lo;
                    self.key_hi[i] = m_hi;
                    self.vals[i] = group;
                    self.masks.push(mask);
                    self.folds.push(fold);
                    self.slots.resize(self.slots.len() + self.size, EMPTY);
                    self.slots[group as usize * self.size + rank] = cand;
                }
                return;
            }
            self.probes += PROBE_LANES as u64;
            idx = (idx + PROBE_LANES) & cap_mask;
        }
    }

    /// Drains the table into `(out_masks, out_slots)` sorted ascending
    /// by mask, recycling its own buffers into the generation arena.
    /// The outputs are appended to (callers pass cleared buffers).
    pub(crate) fn drain_sorted_recycle(self, out_masks: &mut Vec<u128>, out_slots: &mut Vec<Slot>) {
        let len = self.masks.len();
        let mut order: Vec<u32> = arena::with(|a| a.indices.take(len));
        order.extend(0..len as u32);
        order.sort_unstable_by_key(|&g| self.masks[g as usize]);
        out_masks.reserve(len);
        out_slots.reserve(len * self.size);
        for &g in &order {
            let g = g as usize;
            out_masks.push(self.masks[g]);
            out_slots.extend_from_slice(&self.slots[g * self.size..(g + 1) * self.size]);
        }
        arena::with(|a| a.indices.put(order));
        self.recycle();
    }

    /// Consumes the table into freshly allocated `(masks, slots)` sorted
    /// ascending by mask (bench / test entry point).
    #[must_use]
    pub fn into_sorted(self) -> (Vec<u128>, Vec<Slot>) {
        let mut masks = Vec::new();
        let mut slots = Vec::new();
        self.drain_sorted_recycle(&mut masks, &mut slots);
        (masks, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_and_bit_tables_match_shifts() {
        for j in 0..128usize {
            assert_eq!(PREFIX_MASK[j], (1u128 << j).wrapping_sub(1));
            assert_eq!(BIT[j], 1u128 << j);
        }
        // j = 128 would be the full mask; the table stops at 127 on
        // purpose (rank is only asked about members, j < 128).
    }

    #[test]
    fn rank_counts_bits_below() {
        assert_eq!(rank(0b1011, 0), 0);
        assert_eq!(rank(0b1011, 1), 1);
        assert_eq!(rank(0b1011, 3), 2);
        assert_eq!(rank(u128::MAX, 127), 127);
    }

    #[test]
    fn table_relaxes_and_sorts() {
        let mut table = DedupTable::with_expected(4, 2);
        // Force growth through many distinct masks.
        for j in 0..60usize {
            let mask = 0b11u128 << j;
            table.relax(
                mask,
                rank(mask, j),
                Slot {
                    arrival: j as f64,
                    parent: 0,
                    group: 0,
                },
            );
        }
        assert!(table.rehashes() >= 1, "60 masks must outgrow 16 buckets");
        assert!(table.probes() >= 60);
        // Relax an existing state with a worse and a better candidate.
        table.relax(
            0b11,
            0,
            Slot {
                arrival: 99.0,
                parent: 1,
                group: 0,
            },
        );
        table.relax(
            0b11,
            0,
            Slot {
                arrival: -1.0,
                parent: 1,
                group: 0,
            },
        );
        let (masks, slots) = table.into_sorted();
        assert_eq!(masks.len(), 60);
        assert!(masks.windows(2).all(|w| w[0] < w[1]));
        // Group of mask 0b11 is first; member 0 is rank 0.
        assert_eq!(masks[0], 0b11);
        assert_eq!(slots[0].arrival, -1.0);
        // Member 1 (rank 1) of mask 0b11 was never relaxed — stays empty.
        assert!(slots[1].arrival.is_infinite());
        assert_eq!(slots[1].parent, u8::MAX);
    }

    #[test]
    fn high_bit_masks_dedup_correctly() {
        let mut table = DedupTable::with_expected(8, 1);
        let a = 1u128 << 100;
        let b = (1u128 << 100) | 1;
        table.relax(
            a,
            0,
            Slot {
                arrival: 5.0,
                parent: 0,
                group: 0,
            },
        );
        table.relax(
            b,
            0,
            Slot {
                arrival: 6.0,
                parent: 1,
                group: 0,
            },
        );
        table.relax(
            a,
            0,
            Slot {
                arrival: 4.0,
                parent: 2,
                group: 0,
            },
        );
        let (masks, slots) = table.into_sorted();
        assert_eq!(masks, vec![a, b]);
        assert_eq!(slots[0].arrival, 4.0);
        assert_eq!(slots[1].arrival, 6.0);
    }

    #[test]
    fn slot_stays_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn tie_break_prefers_smaller_parent() {
        let better = Slot {
            arrival: 1.0,
            parent: 2,
            group: 0,
        };
        let worse = Slot {
            arrival: 1.0,
            parent: 5,
            group: 0,
        };
        assert!(better.beats(&worse));
        assert!(!worse.beats(&better));
        assert!(!better.beats(&better));
    }
}
