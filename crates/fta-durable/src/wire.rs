//! Minimal binary wire codec shared by frames and snapshots.
//!
//! The journal stores floats as IEEE-754 bit patterns, because recovery
//! is pinned *bit-for-bit* against an uninterrupted run: a decimal
//! round-trip (JSON) would be both slower and lossy for the `u128`
//! strategy masks the solver cache seeds carry. Counts, indices and
//! length prefixes are LEB128 varints ([`Writer::var`]): most are small,
//! and a fixed-width `u64` spends seven zero bytes on each. Values with
//! no small-number bias (RNG state, masks) stay fixed-width
//! little-endian. The codec is deliberately schema-free — each payload
//! type owns its field order and bumps the container version when it
//! changes.

use crate::DurableError;

/// Append-only byte sink with varint and fixed-width little-endian
/// primitives.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
    /// group first, the high bit set on every byte but the last. Values
    /// below 128 take one byte, `u64::MAX` takes ten.
    pub fn var(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte, 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a varint-length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.var(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends an `Option` discriminant followed by the value if present.
    pub fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
        }
    }

    /// Appends a varint-length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.var(items.len() as u64);
        for item in items {
            f(self, item);
        }
    }
}

/// Bounds-checked cursor over an encoded payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for decoding from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails decoding unless every byte was consumed — trailing garbage
    /// means the payload was produced by a different schema revision.
    pub fn finish(self) -> Result<(), DurableError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DurableError::Corrupt("trailing bytes after payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        if self.remaining() < n {
            return Err(DurableError::Corrupt("payload truncated"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DurableError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DurableError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, DurableError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an unsigned LEB128 varint written by [`Writer::var`]. Only
    /// the canonical (shortest) encoding of a `u64` is accepted: a value
    /// wider than 64 bits, or an overlong encoding padded with zero
    /// groups, is [`DurableError::Corrupt`], so every value has exactly
    /// one encoding.
    pub fn var(&mut self) -> Result<u64, DurableError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                return Err(DurableError::Corrupt("varint exceeds 64 bits"));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(DurableError::Corrupt("overlong varint"));
                }
                return Ok(v);
            }
        }
        Err(DurableError::Corrupt("varint exceeds 64 bits"))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, DurableError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte but 0 or 1 is corruption.
    pub fn bool(&mut self) -> Result<bool, DurableError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DurableError::Corrupt("bad bool byte")),
        }
    }

    /// Reads a varint-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], DurableError> {
        let len = self.len_prefix()?;
        self.take(len)
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DurableError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DurableError::Corrupt("string is not UTF-8"))
    }

    /// Reads an `Option` discriminant and the value if present.
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, DurableError>,
    ) -> Result<Option<T>, DurableError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(DurableError::Corrupt("bad option discriminant")),
        }
    }

    /// Reads a varint-length-prefixed sequence.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, DurableError>,
    ) -> Result<Vec<T>, DurableError> {
        let len = self.len_prefix()?;
        let mut out = Vec::with_capacity(len.min(self.remaining()));
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Reads a length prefix, rejecting lengths that exceed the buffer so a
    /// corrupt prefix cannot drive a huge allocation.
    fn len_prefix(&mut self) -> Result<usize, DurableError> {
        let len = self.var()?;
        if len > self.remaining() as u64 * 17 {
            // Elements are at least one byte except empty-struct sequences;
            // the 17x slack covers Option<u128> worst cases without letting
            // a corrupt 2^60 prefix through.
            return Err(DurableError::Corrupt("length prefix exceeds payload"));
        }
        Ok(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::{Reader, Writer};

    #[test]
    fn round_trips_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX / 3);
        w.f64(-0.1f64);
        w.f64(f64::NAN);
        w.bytes(b"frame");
        w.bool(true);
        w.str("rung é");
        w.opt(&Some(42u64), |w, v| w.u64(*v));
        w.opt(&None::<u64>, |w, v| w.u64(*v));
        w.seq(&[1u64, 2, 3], |w, v| w.u64(*v));
        w.var(300);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.bytes().unwrap(), b"frame");
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "rung é");
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(42));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u64()).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.var().unwrap(), 300);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(99);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn varints_round_trip_at_every_group_boundary() {
        let mut values = vec![0u64, 1, u64::MAX - 1, u64::MAX];
        for bits in (7..64).step_by(7) {
            values.extend([(1u64 << bits) - 1, 1u64 << bits]);
        }
        let mut w = Writer::new();
        for &v in &values {
            w.var(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.var().unwrap(), v);
        }
        r.finish().unwrap();
        // One byte per started 7-bit group.
        for (v, len) in [(0u64, 1usize), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            let mut w = Writer::new();
            w.var(v);
            assert_eq!(w.into_bytes().len(), len, "{v}");
        }
        let mut w = Writer::new();
        w.var(u64::MAX);
        assert_eq!(
            w.into_bytes(),
            [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]
        );
    }

    fn corrupt_var(bytes: &[u8]) -> bool {
        matches!(
            Reader::new(bytes).var(),
            Err(super::DurableError::Corrupt(_))
        )
    }

    #[test]
    fn overlong_varints_are_corrupt() {
        // Zero groups padding a value: 0 in two bytes, 1 in three, and a
        // ten-byte zero.
        assert!(corrupt_var(&[0x80, 0x00]));
        assert!(corrupt_var(&[0x81, 0x80, 0x00]));
        let mut ten = [0x80u8; 10];
        ten[9] = 0x00;
        assert!(corrupt_var(&ten));
    }

    #[test]
    fn varints_wider_than_64_bits_are_corrupt() {
        // The tenth byte carries bit 63 only: 2 there is bit 64.
        let mut wide = [0xFFu8; 10];
        wide[9] = 0x02;
        assert!(corrupt_var(&wide));
        // An eleventh byte never fits.
        let mut eleven = [0x80u8; 11];
        eleven[10] = 0x01;
        assert!(corrupt_var(&eleven));
        wide[9] = 0x81;
        assert!(corrupt_var(&wide));
    }

    #[test]
    fn truncated_varint_is_corrupt() {
        assert!(corrupt_var(&[]));
        assert!(corrupt_var(&[0x80]));
        assert!(corrupt_var(&[0xFF, 0xFF]));
    }

    #[test]
    fn absurd_length_prefix_rejected() {
        let mut w = Writer::new();
        w.var(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.seq(|r| r.u8()).is_err());
    }

    #[test]
    fn bad_bool_and_invalid_utf8_are_typed() {
        let mut w = Writer::new();
        w.u8(2);
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.bool().is_err());
        assert!(r.str().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.var(1);
        w.var(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.var().unwrap();
        assert!(r.finish().is_err());
    }
}
