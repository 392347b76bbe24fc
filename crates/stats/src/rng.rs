//! The workspace's one pseudo-random generator and its one 64-bit mixer.
//!
//! Every synthetic population, scanner schedule and sampler draws from
//! [`Rng`]: xoshiro256++ (Blackman & Vigna) with its state expanded from a
//! 64-bit seed through splitmix64, as the authors recommend. Equal seeds give
//! equal streams on every platform, which is what makes `repro --seed`
//! artifacts byte-reproducible. Not cryptographic.

use std::ops::{Bound, RangeBounds};

/// splitmix64's output function over `x + golden-gamma`: a bijective 64-bit
/// mixer. Seeds [`Rng`], derives per-scan keys, and hashes sketch rows.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Unsigned integers [`Rng::range`] can draw.
pub trait RangeInt: Copy {
    /// Widen to `u64`.
    fn to_u64(self) -> u64;
    /// Narrow from a `u64` known to fit.
    fn from_u64(v: u64) -> Self;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize);

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`: four consecutive splitmix64 outputs.
    pub fn seed_from_u64(seed: u64) -> Self {
        const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut s = [0; 4];
        for (i, word) in s.iter_mut().enumerate() {
            *word = mix64(seed.wrapping_add(GAMMA.wrapping_mul(i as u64)));
        }
        Self { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform over a non-empty integer range (`a..b` or `a..=b`).
    ///
    /// Multiply-shift maps one word onto the span; the bias is below 2^-64
    /// per extra value, irrelevant to a workload generator.
    pub fn range<T: RangeInt>(&mut self, range: impl RangeBounds<T>) -> T {
        let low = match range.start_bound() {
            Bound::Included(v) => v.to_u64(),
            Bound::Excluded(v) => v.to_u64() + 1,
            Bound::Unbounded => 0,
        };
        let high = match range.end_bound() {
            Bound::Included(v) => v.to_u64(),
            Bound::Excluded(v) => v.to_u64().checked_sub(1).expect("Rng::range: empty range"),
            Bound::Unbounded => T::from_u64(u64::MAX).to_u64(),
        };
        assert!(low <= high, "Rng::range: empty range");
        let span = high - low;
        if span == u64::MAX {
            return T::from_u64(self.next_u64());
        }
        let offset = ((u128::from(self.next_u64()) * (u128::from(span) + 1)) >> 64) as u64;
        T::from_u64(low + offset)
    }

    /// `true` with probability `p` (`p >= 1.0` is always `true`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0..=i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        // Reference splitmix64.c seeded with 1234567: output n is the mix of
        // the seed advanced n times by the golden gamma.
        const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
        let expected = [
            6_457_827_717_110_365_317u64,
            3_203_168_211_198_807_973,
            9_817_491_932_198_370_423,
            4_593_380_528_125_082_431,
            16_408_922_859_458_223_821,
        ];
        for (n, want) in expected.into_iter().enumerate() {
            assert_eq!(
                mix64(1_234_567u64.wrapping_add(GAMMA.wrapping_mul(n as u64))),
                want
            );
        }
        let seeded = Rng::seed_from_u64(1_234_567);
        assert_eq!(seeded.s, expected[..4]);
    }

    #[test]
    fn xoshiro256plusplus_known_answers() {
        // Reference xoshiro256plusplus.c from state {1, 2, 3, 4}.
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let expected = [
            41_943_041u64,
            58_720_359,
            3_588_806_011_781_223,
            3_591_011_842_654_386,
            9_228_616_714_210_784_205,
            9_973_669_472_204_895_162,
        ];
        for want in expected {
            assert_eq!(rng.next_u64(), want);
        }
    }

    #[test]
    fn range_stays_inside_and_reaches_both_ends() {
        let mut rng = Rng::seed_from_u64(1);
        let (mut low, mut high) = ([false; 2], [false; 2]);
        for _ in 0..2_000 {
            let value: u8 = rng.range(3..10);
            assert!((3..10).contains(&value));
            low[0] |= value == 3;
            high[0] |= value == 9;
            let inclusive: usize = rng.range(0..=4);
            assert!(inclusive <= 4);
            low[1] |= inclusive == 0;
            high[1] |= inclusive == 4;
            assert!((0.0..1.0).contains(&rng.f64()));
        }
        assert_eq!((low, high), ([true; 2], [true; 2]));
        assert_eq!(rng.range(5..6u64), 5);
        assert_eq!(rng.range(u64::MAX..=u64::MAX), u64::MAX);
        let _full: u64 = rng.range(..);
        assert_eq!(rng.range(..=0u16), 0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(1).range(4..4u32);
    }

    #[test]
    fn seeds_decide_the_stream() {
        let (mut a, mut b, mut c) = (
            Rng::seed_from_u64(7),
            Rng::seed_from_u64(7),
            Rng::seed_from_u64(8),
        );
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert!(!(0..64).all(|_| a.chance(0.5)));
        assert!((0..64).all(|_| a.chance(1.0)));
        assert!(!(0..64).any(|_| a.chance(0.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
