//! Minimal binary wire codec shared by frames and snapshots.
//!
//! The journal stores floats as IEEE-754 bit patterns and integers as
//! fixed-width little-endian, because recovery is pinned *bit-for-bit*
//! against an uninterrupted run: a decimal round-trip (JSON) would be both
//! slower and lossy for the `u128` strategy masks the solver cache seeds
//! carry. The codec is deliberately schema-free — each payload type owns
//! its field order and bumps the container version when it changes.

use crate::DurableError;

/// Append-only byte sink with fixed-width little-endian primitives.
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

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte, 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
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

    /// Appends a length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u64(items.len() as u64);
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

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DurableError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DurableError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, DurableError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
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

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], DurableError> {
        let len = self.len_prefix()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
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

    /// Reads a length-prefixed sequence.
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
        let len = self.u64()?;
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
        w.u32(0xDEAD_BEEF);
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
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
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
    fn absurd_length_prefix_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2);
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
        w.u32(1);
        w.u32(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }
}
