//! Branch-light mask-scan kernels over `[u64; 2]` limbs.
//!
//! The equilibrium hot loops ask one question over and over: *given the
//! union of everyone else's taken delivery points, which of this
//! worker's slots are still open, and which open slot pays the most?* A
//! slot is open when its `u128` DP mask does not intersect the taken
//! mask. Strategy spaces keep each worker's slots in ascending pool-index
//! order only, so the monotone best response is one argmax pass over
//! that order ([`best_open_chunked`]): the first strict payoff maximum
//! among open slots, i.e. payoff ties go to the lowest pool index.
//!
//! The chunked kernels process candidates in chunks of [`LANES`],
//! splitting every `u128` into its two `u64` limbs: `m & t == 0` iff
//! `(m_lo & t_lo) | (m_hi & t_hi) == 0`. Within a chunk the per-lane
//! conflict tests are reduced into a single `open` bitmap with no branch
//! per lane — just AND/OR/compare lanewise, the shape LLVM
//! autovectorizes on any target with 128-bit vectors. One branch per
//! chunk then either skips 8 closed (or out-paid) candidates at once or
//! walks the survivors with a trailing-zeros count.
//!
//! The kernels are proptested against the plain one-branch-per-candidate
//! loops they replace (the scalar references live in the test files), and
//! `hotpath_snapshot` benchmarks them head-to-head against the same loops.

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

/// Position of the highest payoff among the slots whose mask does not
/// intersect `taken`: the first strict maximum in slice order, so payoff
/// ties go to the lowest position. A slot whose payoff is NaN or −∞ never
/// wins. `payoffs` is parallel to `masks`.
#[inline]
#[must_use]
pub fn best_open_chunked(masks: &[u128], payoffs: &[f64], taken: u128) -> Option<usize> {
    let t_lo = taken as u64;
    let t_hi = (taken >> 64) as u64;
    best_chunked(
        payoffs,
        |base| {
            let chunk: &[u128; LANES] = masks[base..base + LANES]
                .try_into()
                .expect("chunk is LANES wide");
            open_bitmap(chunk, t_lo, t_hi)
        },
        |pos| masks[pos] & taken == 0,
    )
}

/// Plain argmax loop over `payoffs[start..]`, continuing from a running
/// `best`: the tail of [`best_chunked`].
#[inline]
fn best_scalar(
    payoffs: &[f64],
    start: usize,
    mut best: Option<usize>,
    is_open: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut best_p = best.map_or(f64::NEG_INFINITY, |b| payoffs[b]);
    for (pos, &p) in payoffs.iter().enumerate().skip(start) {
        if p > best_p && is_open(pos) {
            best = Some(pos);
            best_p = p;
        }
    }
    best
}

/// Argmax loop of [`best_open_chunked`]. `open_chunk(base)` is the
/// open bitmap of the [`LANES`] slots starting at `base`. Until some slot
/// is open every lane is a candidate, so the first phase is a plain
/// availability sweep. From then on only the lanes that out-pay the
/// running maximum are, and a chunk with none of them skips the
/// availability test. The tail is finished by [`best_scalar`] with
/// `is_open`.
#[inline]
fn best_chunked(
    payoffs: &[f64],
    open_chunk: impl Fn(usize) -> u32,
    is_open: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut best = None;
    let mut best_p = f64::NEG_INFINITY;
    let full = payoffs.len() - payoffs.len() % LANES;
    let mut bases = (0..full).step_by(LANES);
    if let Some((base, open)) = bases
        .by_ref()
        .map(|base| (base, open_chunk(base)))
        .find(|&(_, open)| open != 0)
    {
        take_max(payoffs, base, open, &mut best, &mut best_p);
    }
    for base in bases {
        let mut above = 0u32;
        for (k, &p) in payoffs[base..base + LANES].iter().enumerate() {
            above |= u32::from(p > best_p) << k;
        }
        if above != 0 {
            take_max(
                payoffs,
                base,
                above & open_chunk(base),
                &mut best,
                &mut best_p,
            );
        }
    }
    best_scalar(payoffs, full, best, is_open)
}

/// Folds the candidate lanes `cand` of the chunk at `base` into the
/// running maximum, ascending, keeping the first strict maximum.
#[inline]
fn take_max(
    payoffs: &[f64],
    base: usize,
    mut cand: u32,
    best: &mut Option<usize>,
    best_p: &mut f64,
) {
    while cand != 0 {
        let pos = base + cand.trailing_zeros() as usize;
        if payoffs[pos] > *best_p {
            *best = Some(pos);
            *best_p = payoffs[pos];
        }
        cand &= cand - 1;
    }
}

/// Zero-based rank of slot `pos` in (payoff descending, position
/// ascending) order: the slots paying more, plus the equal-paying slots
/// before it. This is how many slots a first-hit scan over the
/// payoff-sorted list would pass before reaching `pos`.
#[inline]
#[must_use]
pub fn desc_rank(payoffs: &[f64], pos: usize) -> usize {
    let p = payoffs[pos];
    let before = payoffs[..pos].iter().filter(|&&q| q >= p).count();
    let after = payoffs[pos + 1..].iter().filter(|&&q| q > p).count();
    before + after
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

    #[test]
    fn desc_rank_counts_better_and_earlier_ties() {
        let payoffs = [2.0, 5.0, 2.0, 7.0, 2.0];
        assert_eq!(desc_rank(&payoffs, 3), 0);
        assert_eq!(desc_rank(&payoffs, 1), 1);
        assert_eq!(desc_rank(&payoffs, 0), 2);
        assert_eq!(desc_rank(&payoffs, 2), 3);
        assert_eq!(desc_rank(&payoffs, 4), 4);
    }
}
