//! Software CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected).
//!
//! The WAL and snapshot formats checksum every payload with CRC32C — the
//! same polynomial iSCSI, ext4 and SpacetimeDB's commitlog use — because
//! it detects the failure modes a torn write actually produces (trailing
//! zero fill, truncation mid-frame) far better than a sum.
//!
//! The checksum is slice-by-8: eight const-built 256-entry tables let the
//! loop fold eight input bytes per step with eight independent lookups,
//! instead of one byte per dependent lookup. Hardware SSE4.2 `crc32`
//! would be faster still but needs `unsafe` intrinsics. Measured on a
//! 2-core x86-64 box, the bytewise table (kept below as the test oracle)
//! ran ~330 MB/s and slice-by-8 ~1.25 GB/s: a ~55 kB round frame costs
//! ~45 µs instead of ~170 µs.

/// Eight 256-entry tables for the reflected Castagnoli polynomial:
/// `TABLES[0]` is the classic bytewise table, and `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0x82F6_3B78; // 0x1EDC6F41 bit-reflected
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC32C of `data` (init `!0`, final xor `!0` — the standard reflected
/// convention, matching the `crc32c` crate and RFC 3720 test vectors).
pub fn crc32c(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// The bytewise (slice-by-one) CRC32C: the oracle [`crc32c`] is checked
/// against.
#[cfg(test)]
pub(crate) fn crc32c_bytewise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::{crc32c, crc32c_bytewise};
    use proptest::prelude::*;

    /// RFC 3720 appendix B.4 test vectors.
    #[test]
    fn rfc3720_vectors() {
        for f in [crc32c, crc32c_bytewise] {
            assert_eq!(f(&[0u8; 32]), 0x8A91_36AA);
            assert_eq!(f(&[0xFFu8; 32]), 0x62A8_AB43);
            let ascending: Vec<u8> = (0u8..32).collect();
            assert_eq!(f(&ascending), 0x46DD_794E);
            let descending: Vec<u8> = (0u8..32).rev().collect();
            assert_eq!(f(&descending), 0x113F_DB5C);
        }
    }

    #[test]
    fn classic_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_bytewise(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut buf = vec![0x5Au8; 97];
        let clean = crc32c(&buf);
        for i in 0..buf.len() {
            buf[i] ^= 0x01;
            assert_ne!(crc32c(&buf), clean, "flip at byte {i} undetected");
            buf[i] ^= 0x01;
        }
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    proptest! {
        #[test]
        fn slice_by_8_matches_bytewise_on_short_buffers(
            data in prop::collection::vec(0u8..=255, 0..301),
            offset in 0usize..8,
        ) {
            // Sub-slices at every alignment exercise the 8-byte body and
            // the bytewise tail at each split.
            let slice = &data[offset.min(data.len())..];
            prop_assert_eq!(crc32c(slice), crc32c_bytewise(slice));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn slice_by_8_matches_bytewise_on_frame_sized_buffers(
            len in 90_000usize..110_000,
            seed in 0u64..=u64::MAX,
            offset in 0usize..8,
        ) {
            let data = bytes(len, seed);
            prop_assert_eq!(crc32c(&data[offset..]), crc32c_bytewise(&data[offset..]));
        }
    }
}
