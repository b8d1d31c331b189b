//! The workspace's one FNV-1a fold, shared by every fingerprint and by the
//! spill tier's checksum.
//!
//! Design identity hashes ([`crate::design::Design::seq_name_fingerprint`],
//! [`crate::design::Design::geometry_fingerprint`],
//! [`crate::connectivity::Connectivity::fingerprint`]) and audit-trail hashes
//! in downstream crates all fold through this one implementation, so the
//! constants and byte order cannot drift apart between copies. Fingerprints
//! fold byte by byte ([`Fnv1a::write_bytes`]); their values are pinned in
//! golden tests and name spill files, so they never change fold.
//!
//! [`Fnv1a::write_words`] folds eight bytes per step. It is a **checksum**,
//! not a fingerprint: the spill tier runs it over whole file payloads, where
//! it only has to notice damage (about 0.1 ms on a 429 KB warm-start seed
//! on a 2-vCPU x86-64 VM, where the byte fold takes 0.6 ms). Its values
//! differ from the byte fold's.

/// An incremental FNV-1a hasher over little-endian words and raw bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    /// Left rotation of the state after each word of [`Fnv1a::write_words`].
    const WORD_ROTATION: u32 = 31;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// A hasher continuing from a previously [`Fnv1a::finish`]ed state (for
    /// running hashes folded incrementally across events).
    pub fn resume(state: u64) -> Self {
        Self(state)
    }

    /// Folds raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds `bytes` as 8-byte little-endian words, then the 0–7 tail bytes
    /// one at a time. Each word is one step: xor it into the state, multiply
    /// by the FNV prime, rotate the state left by 31 bits.
    ///
    /// Every step is a bijection of the state for a fixed input, so a change
    /// confined to one word always changes the result. The rotation feeds
    /// the high bits back down: without it bit 63 of the state would never
    /// reach another bit (2^63 × an odd prime ≡ 2^63), and flipping bit 63
    /// in any two words would cancel exactly.
    ///
    /// A checksum for damage detection, not a fingerprint: it disagrees
    /// with [`Fnv1a::write_bytes`] on the same input.
    #[inline]
    pub fn write_words(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.0 ^= u64::from_le_bytes(*word);
            self.0 = self.0.wrapping_mul(Self::PRIME).rotate_left(Self::WORD_ROTATION);
        }
        self.write_bytes(tail);
    }

    /// Folds a `0xff` separator so concatenated fields cannot collide.
    #[inline]
    pub fn write_sep(&mut self) {
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds a `u32` as its little-endian bytes.
    #[inline]
    pub fn write_u32(&mut self, word: u32) {
        self.write_bytes(&word.to_le_bytes());
    }

    /// Folds a `u64` as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.write_bytes(&word.to_le_bytes());
    }

    /// Folds an `i64` as its little-endian bytes.
    #[inline]
    pub fn write_i64(&mut self, word: i64) {
        self.write_bytes(&word.to_le_bytes());
    }

    /// The folded hash.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_fnv1a_fold() {
        // FNV-1a of the empty input is the offset basis
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        // the classic reference vector: fnv1a64("a") = 0xaf63dc4c8601ec8c
        let mut h = Fnv1a::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn word_writes_equal_byte_writes() {
        let mut by_word = Fnv1a::new();
        by_word.write_u32(0x0403_0201);
        let mut by_bytes = Fnv1a::new();
        by_bytes.write_bytes(&[1, 2, 3, 4]);
        assert_eq!(by_word.finish(), by_bytes.finish());
    }

    /// Known answers of the word fold on the bytes `1, 2, …, n`, computed
    /// by an independent implementation of the rule in the doc comment.
    #[test]
    fn word_fold_matches_its_known_answers() {
        let cases = [
            (0, 0xcbf2_9ce4_8422_2325),
            (1, 0xaf63_bc4c_8601_b62c),
            (7, 0xb366_33e7_03a8_0ad7),
            (8, 0x5c25_a816_0dbb_a896),
            (9, 0x4fa5_3c79_55df_862d),
            (17, 0xa2cc_e454_3a54_4020),
        ];
        for (n, want) in cases {
            let bytes: Vec<u8> = (1..=n).collect();
            let mut h = Fnv1a::new();
            h.write_words(&bytes);
            assert_eq!(h.finish(), want, "{n} bytes");
        }
        // under eight bytes there is no whole word: the byte fold's answer
        let mut by_bytes = Fnv1a::new();
        by_bytes.write_bytes(&[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(by_bytes.finish(), 0xb366_33e7_03a8_0ad7);
    }

    /// Flipping bit 63 of two different words of a 429 KB payload (the
    /// size of the benchmark's warm-start seed) changes the word fold;
    /// without the rotation each pair would cancel.
    #[test]
    fn word_fold_sees_bit_63_flips_in_two_words() {
        let payload: Vec<u8> =
            (0..429_463u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let sum = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write_words(bytes);
            h.finish()
        };
        // the same fold without the rotation, which the pairs below defeat
        let unrotated =
            |bytes: &[u8]| {
                bytes.as_chunks::<8>().0.iter().fold(Fnv1a::OFFSET, |s, w| {
                    (s ^ u64::from_le_bytes(*w)).wrapping_mul(Fnv1a::PRIME)
                })
            };
        let clean = sum(&payload);
        let words = payload.len() / 8;
        let pairs = [(0, 1), (0, words - 1), (1_000, 1_001), (17, 40_000), (words - 2, words - 1)];
        for (a, b) in pairs {
            let mut bad = payload.clone();
            bad[8 * a + 7] ^= 0x80;
            bad[8 * b + 7] ^= 0x80;
            assert_ne!(sum(&bad), clean, "bit 63 flipped in words {a} and {b}");
            assert_eq!(unrotated(&bad), unrotated(&payload), "the blind spot the rotation closes");
        }
        // every single-bit flip in a word changes the sum (one step is a
        // bijection of the state)
        for bit in 0..64 {
            let mut bad = payload.clone();
            bad[8 * 123 + bit / 8] ^= 1 << (bit % 8);
            assert_ne!(sum(&bad), clean, "bit {bit} of word 123");
        }
    }

    #[test]
    fn separator_distinguishes_concatenations() {
        let mut joined = Fnv1a::new();
        joined.write_bytes(b"ab");
        joined.write_sep();
        joined.write_bytes(b"c");
        let mut split = Fnv1a::new();
        split.write_bytes(b"a");
        split.write_sep();
        split.write_bytes(b"bc");
        assert_ne!(joined.finish(), split.finish());
    }
}
