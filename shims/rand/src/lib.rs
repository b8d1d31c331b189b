//! Offline stand-in for the `rand`, `rand_core` and `rand_chacha` crates,
//! reduced to the API surface this workspace uses: the [`RngCore`] and
//! [`SeedableRng`] traits, the [`ChaCha8Rng`] generator, and the [`Rng`]
//! extension trait with `gen`, `gen_range` and `gen_bool`.
//!
//! [`ChaCha8Rng`] is a ChaCha keystream with 8 rounds, and
//! [`SeedableRng::seed_from_u64`] expands a `u64` into the 32-byte key with
//! SplitMix64. Every stream is deterministic per seed, which is the
//! reproducibility guarantee the placement flows rely on; the
//! `chacha8_known_answers` test pins it.

use std::ops::{Range, RangeInclusive};

/// A source of uniformly distributed random bits.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// One step of the SplitMix64 sequence, used to expand small seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An RNG that can be reproducibly constructed from a seed.
pub trait SeedableRng: Sized {
    /// Seed material, typically a byte array.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates the RNG from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates the RNG from a `u64`, filling the seed with successive
    /// SplitMix64 outputs so that small seeds set every seed byte.
    fn seed_from_u64(state: u64) -> Self {
        let mut s = state;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let z = splitmix64(&mut s).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&z[..n]);
        }
        Self::from_seed(seed)
    }
}

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
const BLOCK_WORDS: usize = 16;

/// A ChaCha stream cipher RNG with 8 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    buffer: [u32; BLOCK_WORDS],
    index: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut initial = [0u32; BLOCK_WORDS];
        initial[..4].copy_from_slice(&CONSTANTS);
        initial[4..12].copy_from_slice(&self.key);
        initial[12] = self.counter as u32;
        initial[13] = (self.counter >> 32) as u32;
        // nonce words 14..16 stay zero
        let mut state = initial;
        for _ in 0..4 {
            // one double round = column round + diagonal round
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, init) in state.iter_mut().zip(initial) {
            *out = out.wrapping_add(init);
        }
        self.buffer = state;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BLOCK_WORDS {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        Self { key, counter: 0, buffer: [0; BLOCK_WORDS], index: BLOCK_WORDS }
    }
}

/// Types that `Rng::gen` can produce.
pub trait RandValue: Sized {
    /// Samples a value from the full/unit range of the type.
    fn rand<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl RandValue for f64 {
    fn rand<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl RandValue for bool {
    fn rand<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

/// Types that can be sampled uniformly from a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Samples uniformly from `[low, high)` (`high` exclusive).
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Samples uniformly from `[low, high]` (`high` inclusive).
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128).wrapping_sub(low as i128) as u128;
                let word = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                low.wrapping_add((word % span) as $t)
            }
            fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: empty range");
                let span = ((high as i128).wrapping_sub(low as i128) as u128) + 1;
                let word = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                low.wrapping_add((word % span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl SampleUniform for i128 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        let span = high.wrapping_sub(low) as u128;
        let word = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        low.wrapping_add((word % span) as i128)
    }
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low <= high, "gen_range: empty range");
        let span = (high.wrapping_sub(low) as u128).wrapping_add(1);
        let word = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        if span == 0 {
            return word as i128; // full-width range
        }
        low.wrapping_add((word % span) as i128)
    }
}

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        low + f64::rand(rng) * (high - low)
    }
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low <= high, "gen_range: empty range");
        low + f64::rand(rng) * (high - low)
    }
}

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_closed(rng, *self.start(), *self.end())
    }
}

/// Extension methods for random value generation, blanket-implemented for
/// every [`RngCore`] (mirrors the real `rand::Rng`).
pub trait Rng: RngCore {
    /// A random value of type `T` (for floats: uniform in `[0, 1)`).
    fn gen<T: RandValue>(&mut self) -> T {
        T::rand(self)
    }

    /// A uniform sample from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(10i64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let u = rng.gen_range(0usize..3);
            assert!(u < 3);
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn unit_float_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_span() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    /// Known answers pinning the keystream, the SplitMix64 seed expansion,
    /// `gen_range` and `gen::<f64>`: per seed, one generator yields 20
    /// `next_u32` words (crossing the 16-word block refill), then 8 draws
    /// of `gen_range(0..1000usize)`, 8 of `gen_range(-5i64..=5)` and 4
    /// `gen::<f64>()` bit patterns, in that order.
    #[test]
    fn chacha8_known_answers() {
        struct Answers {
            seed: u64,
            words: [u32; 20],
            below_1000: [usize; 8],
            signed: [i64; 8],
            unit_bits: [u64; 4],
        }
        let cases = [
            Answers {
                seed: 0,
                words: [
                    0x2d8ee5e8, 0xbf94d133, 0xa6da5a01, 0x3a738775, 0xc143ee06, 0x3d46ff10,
                    0xe9f6424f, 0x17c6ab23, 0x2fb6898b, 0x5ce2479b, 0x86bff662, 0x0ae8099f,
                    0xc72f90bd, 0x5f2f09fd, 0x28e5a01f, 0x95d53efa, 0x94efaf48, 0x1131e62b,
                    0x17d7a4e4, 0x9eec7e55,
                ],
                below_1000: [987, 813, 43, 549, 646, 39, 671, 949],
                signed: [-5, -5, 0, -1, -3, 4, -1, 0],
                unit_bits: [
                    0x3fcfd88ff401a654,
                    0x3fecbde30d5602a9,
                    0x3fd7264bbfc22d20,
                    0x3f9160d14e7939a0,
                ],
            },
            Answers {
                seed: 1,
                words: [
                    0x48a8b558, 0xef72eaf4, 0x599a55b3, 0x8a33ba97, 0xe248f1ee, 0x0c40074e,
                    0x5b660e10, 0xdbb16098, 0x22a8ce78, 0x72858f91, 0x6ec9d0a6, 0x1a915dfc,
                    0xb6823c71, 0xf28532b6, 0xc2831367, 0x42bd7361, 0x5a625dcb, 0x7f116bb1,
                    0xa2be493e, 0x5ba35ac4,
                ],
                below_1000: [679, 22, 250, 439, 73, 238, 753, 392],
                signed: [-5, 1, -2, 5, -2, 4, 4, -3],
                unit_bits: [
                    0x3fe46c94dbb6b9de,
                    0x3fad5f82b15273c0,
                    0x3fe22f900d863bb2,
                    0x3fe82ddeed68f5ac,
                ],
            },
            Answers {
                seed: 42,
                words: [
                    0x87c91afc, 0x31159ef9, 0xb4169001, 0x17559844, 0x9ad9a69f, 0xf7d0afbf,
                    0xfd37495a, 0xb9207ad5, 0x61329c11, 0x072db0db, 0xeca26593, 0x4051bc3b,
                    0xcc4703b6, 0xbfaab970, 0x8f89d223, 0xaff5425d, 0x6b947e05, 0xf6875512,
                    0x953f9601, 0x26706e48,
                ],
                below_1000: [926, 446, 61, 174, 266, 415, 507, 353],
                signed: [3, -3, -4, -4, 5, -1, -3, 4],
                unit_bits: [
                    0x3fea54c6ae5ae12f,
                    0x3fe22a34dd9f9ff3,
                    0x3fae320f807afab0,
                    0x3fe18b77346b2af4,
                ],
            },
        ];
        for want in cases {
            let seed = want.seed;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let words = want.words.map(|_| rng.next_u32());
            let below_1000 = want.below_1000.map(|_| rng.gen_range(0..1000usize));
            let signed = want.signed.map(|_| rng.gen_range(-5i64..=5));
            let unit_bits = want.unit_bits.map(|_| rng.gen::<f64>().to_bits());
            assert_eq!(words, want.words, "seed {seed}");
            assert_eq!(below_1000, want.below_1000, "seed {seed}");
            assert_eq!(signed, want.signed, "seed {seed}");
            assert_eq!(unit_bits, want.unit_bits, "seed {seed}");
        }
    }

    #[test]
    fn works_through_mut_references() {
        fn takes_rng<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0u64..100)
        }
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert!(takes_rng(&mut rng) < 100);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stream_continues_past_one_block() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let first_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first_block, second_block);
    }

    #[test]
    fn output_bits_look_balanced() {
        // a crude sanity check that the keystream is not obviously broken
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ones: u32 = (0..1000).map(|_| rng.next_u32().count_ones()).sum();
        let total = 1000 * 32;
        assert!(ones > total / 3 && ones < 2 * total / 3, "ones = {ones}/{total}");
    }

    #[test]
    fn splitmix_disperses_small_seeds() {
        let mut a = 1;
        let mut b = 2;
        assert_ne!(splitmix64(&mut a), splitmix64(&mut b));
    }
}
