//! Minimal little-endian binary codec for the disk spill tier.
//!
//! The workspace has no serialization framework, so spill files and the
//! warm-start seeds they carry are written with this hand-rolled codec:
//! fixed-width little-endian integers, length-prefixed strings, and a
//! truncation-tolerant [`Reader`] whose every accessor returns `Option` —
//! a short or corrupt buffer decodes to `None`, never a panic, so a
//! malformed file reads as absent.
//!
//! # Example
//!
//! ```
//! use netlist::codec::{put_str, put_u32, Reader};
//!
//! let mut buf = Vec::new();
//! put_u32(&mut buf, 7);
//! put_str(&mut buf, "u_mem/ram0");
//! let mut r = Reader::new(&buf);
//! assert_eq!(r.take_u32(), Some(7));
//! assert_eq!(r.take_str().as_deref(), Some("u_mem/ram0"));
//! assert!(r.is_exhausted());
//! ```

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` little-endian.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Upper bound on a single decoded array's element count (1 G entries):
/// guards length-prefix corruption from turning into an allocation bomb.
const MAX_LEN: u64 = 1 << 30;

/// A bounds-checked cursor over an encoded buffer. Every accessor returns
/// `Option`: `None` on truncation or a malformed prefix, after which the
/// caller abandons the decode (a malformed spill file reads as absent).
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the whole buffer was consumed (decoders require this so
    /// trailing garbage is rejected, not silently ignored).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn take_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, _) = self.bytes.get(self.pos..)?.split_first_chunk::<N>()?;
        self.pos += N;
        Some(*head)
    }

    /// Consumes and returns every byte not yet read, for decoders that walk
    /// a final section record by record.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        self.pos = self.bytes.len();
        rest
    }

    /// Reads a `u8`.
    pub fn take_u8(&mut self) -> Option<u8> {
        self.take_array().map(|[b]| b)
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> Option<i64> {
        self.take_array().map(i64::from_le_bytes)
    }

    /// Reads an array-length prefix, rejecting lengths that cannot fit in
    /// the remaining bytes (at one byte per element) or exceed the sanity
    /// cap. Decoders of multi-byte elements should still divide
    /// [`Reader::remaining`] by their element size before reserving.
    pub fn take_len(&mut self) -> Option<usize> {
        let len = self.take_u64()?;
        // reject lengths that cannot fit in the remaining bytes (element
        // size >= 1) or exceed the sanity cap — corrupt prefixes otherwise
        // turn into huge allocations before the checksum gets a say
        if len > MAX_LEN || len as usize > self.remaining() {
            return None;
        }
        Some(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Option<String> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xab);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_str(&mut buf, "hél/lo");
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_u8(), Some(0xab));
        assert_eq!(r.take_u32(), Some(0xdead_beef));
        assert_eq!(r.take_u64(), Some(u64::MAX - 1));
        assert_eq!(r.take_i64(), Some(-42));
        assert_eq!(r.take_str().as_deref(), Some("hél/lo"));
        assert!(r.is_exhausted());
    }

    #[test]
    fn arrays_round_trip() {
        // an array as the seed codec writes one: a `u64` length, then
        // fixed-size records read back from the unread tail
        for values in [&[3u32, 2, 1][..], &[]] {
            let mut buf = Vec::new();
            put_u64(&mut buf, values.len() as u64);
            for &v in values {
                put_u32(&mut buf, v);
            }
            let mut r = Reader::new(&buf);
            assert_eq!(r.take_len(), Some(values.len()));
            let records: Vec<u32> = r
                .take_rest()
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            assert_eq!(records, values);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn every_truncation_point_returns_none() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_i64(&mut buf, -3);
        put_str(&mut buf, "tail");
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            // whichever field the cut lands in, some accessor reports None
            let ok = r.take_u32().is_some() && r.take_i64().is_some() && r.take_str().is_some();
            assert!(!ok, "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn take_rest_consumes_the_unread_tail() {
        let buf = [7, 1, 2, 3];
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_u8(), Some(7));
        assert_eq!(r.take_rest(), &[1, 2, 3]);
        assert!(r.is_exhausted());
        assert_eq!(r.take_rest(), &[] as &[u8]);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // absurd element count
        assert_eq!(Reader::new(&buf).take_len(), None);
        let mut buf = Vec::new();
        put_u64(&mut buf, 10); // more elements than bytes remain
        put_u32(&mut buf, 1);
        assert_eq!(Reader::new(&buf).take_len(), None);
        assert_eq!(Reader::new(&buf).take_str(), None);
    }

    #[test]
    fn non_utf8_string_is_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Reader::new(&buf).take_str(), None);
    }
}
