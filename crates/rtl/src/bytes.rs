//! The workspace's one little-endian byte codec, and its one hash.
//!
//! Everything that crosses an address space or outlives a process is
//! written with [`ByteWriter`] and read back with [`ByteReader`]:
//! portable engine snapshots here, and in the partition layer the wire
//! frames between coordinator and workers and the durable barrier
//! records a restarted coordinator resumes from. Field order is fixed
//! by each format's own encoder; versioning and integrity checks live
//! one layer up (a tag/version byte pair in the snapshot encodings, a
//! magic/version header and an [`fnv1a`] checksum on wire frames, CRC
//! framing in the partition store).
//!
//! Decoding is strict: every length is bounds-checked against the
//! remaining bytes before anything is allocated, booleans must be
//! exactly 0 or 1, strings must be UTF-8, and the caller rejects
//! trailing bytes via [`ByteReader::finish`]. A malformed buffer yields
//! [`Error::SnapshotDecode`], never a panic: torn or corrupted records
//! and hostile frames must surface as typed errors, which each format
//! maps to its own error at its one entry point.

use crate::error::{Error, Result};

/// Hard ceiling on any single decoded collection, so a corrupt length
/// prefix cannot request an absurd allocation before the bounds check
/// against the remaining buffer catches it.
const MAX_LEN: usize = 1 << 28;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds bytes into a 64-bit FNV-1a accumulator (start from
/// [`hash_seed`]). Folding is incremental: two calls over `a` then `b`
/// equal one call over their concatenation. Not cryptographic; it keys
/// caches and detects corruption.
#[must_use]
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a offset basis: the initial accumulator of every
/// [`fnv1a`] hash.
#[must_use]
#[inline]
pub const fn hash_seed() -> u64 {
    FNV_OFFSET
}

/// Appends primitives to a growing byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    #[must_use]
    #[inline]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A boolean as one byte, 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Four bytes, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight bytes, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight bytes, little-endian two's complement.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize` as eight bytes.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Length prefix for a collection about to be written element-wise.
    ///
    /// # Panics
    ///
    /// If `n` does not fit a `u32`.
    #[inline]
    pub fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("collection fits a u32 length"));
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// A length-prefixed sequence, each item written by `each`.
    pub fn seq<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        self.len(items.len());
        for item in items {
            each(self, item);
        }
    }
}

/// Cursor over an encoded buffer, with typed bounds-checked reads.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn bad(detail: impl Into<String>) -> Error {
    Error::SnapshotDecode { detail: detail.into() }
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    #[must_use]
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// The next `n` bytes, borrowed from the buffer.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] if fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad(format!("need {n} bytes at offset {}", self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] on a short buffer (as every read).
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A boolean byte, which must be 0 or 1.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] for any other byte.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(format!("bool byte {other}"))),
        }
    }

    /// Four bytes, little-endian.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] on a short buffer.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Eight bytes, little-endian.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] on a short buffer.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Eight bytes, little-endian two's complement.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] on a short buffer.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A `usize` written by [`ByteWriter::usize`].
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] on a short buffer or a value above
    /// `usize::MAX`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| bad("usize overflow"))
    }

    /// Reads a collection length prefix, rejecting lengths that cannot
    /// possibly fit in the remaining buffer (each element is at least
    /// `min_elem_bytes` wide).
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] on a short buffer or an impossible
    /// length.
    #[inline]
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if n > MAX_LEN || floor > self.buf.len() - self.pos {
            return Err(bad(format!(
                "length {n} exceeds remaining {} bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] on a short buffer or invalid UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| bad("string is not UTF-8"))
    }

    /// A length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] on a short buffer.
    #[inline]
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// A length-prefixed sequence, each item read by `each`; the length
    /// is bounded as in [`ByteReader::len`] (`min_elem_bytes` is the
    /// smallest encoded item) before anything is reserved.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] on an impossible length, or the first
    /// error `each` returns.
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut each: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.len(min_elem_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(each(self)?);
        }
        Ok(items)
    }

    /// Rejects trailing garbage after the last expected field.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotDecode`] if any byte is left unread.
    #[inline]
    pub fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!("{} trailing bytes", self.buf.len() - self.pos)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(0xab);
        w.bool(true);
        w.bool(false);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.i64(-12345);
        w.usize(77);
        w.len(3);
        for byte in [4u8, 5, 6] {
            w.u8(byte);
        }
        w.str("wire");
        w.bytes(&[9, 8]);
        w.seq(&[-1i64, 2], |w, &v| w.i64(v));
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -12345);
        assert_eq!(r.usize().unwrap(), 77);
        assert_eq!(r.len(1).unwrap(), 3);
        assert_eq!(r.u8().unwrap(), 4);
        assert_eq!(r.u8().unwrap(), 5);
        assert_eq!(r.u8().unwrap(), 6);
        assert_eq!(r.str().unwrap(), "wire");
        assert_eq!(r.bytes().unwrap(), [9, 8]);
        assert_eq!(r.seq(8, ByteReader::i64).unwrap(), [-1, 2]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_bad_bools_and_absurd_lengths_are_typed_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(Error::SnapshotDecode { .. })));

        let mut r = ByteReader::new(&[7]);
        assert!(matches!(r.bool(), Err(Error::SnapshotDecode { .. })));

        // A length prefix claiming more elements than bytes remain.
        let mut w = ByteWriter::new();
        w.len(1000);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.len(8), Err(Error::SnapshotDecode { .. })));
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.seq(1, ByteReader::u8), Err(Error::SnapshotDecode { .. })));

        // A string that is not UTF-8.
        let mut w = ByteWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.finish();
        assert!(matches!(ByteReader::new(&bytes).str(), Err(Error::SnapshotDecode { .. })));

        // Trailing bytes are rejected.
        let r = ByteReader::new(&[0]);
        assert!(matches!(r.finish(), Err(Error::SnapshotDecode { .. })));
    }
}
