//! Stand-in for the slice of `rand` 0.10 the benchmarked crates call:
//! `StdRng`, `SeedableRng::seed_from_u64`, `RngExt::{random, random_range,
//! random_bool}` and `seq::SliceRandom::shuffle`.
//!
//! `StdRng` here is xoshiro256++ seeded through splitmix64, not ChaCha12, so
//! streams differ from the published crate. The benchmark uses it during
//! set-up only; [`draws`] lets the harness assert that no timed section
//! reaches it.

use std::ops::{Range, RangeInclusive};
use std::sync::atomic::{AtomicU64, Ordering};

static DRAWS: AtomicU64 = AtomicU64::new(0);

/// 64-bit words drawn from any `StdRng` in this process so far.
pub fn draws() -> u64 {
    DRAWS.load(Ordering::Relaxed)
}

/// Source of random words (`RngCore` before rand 0.10).
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be built from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `RngExt::random` can produce.
pub trait Random {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

/// Types `RngExt::random_range` can produce.
pub trait SampleUniform: Sized {
    /// Uniform over `low..=high`; the caller guarantees `low <= high`.
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform over `low..high`; the caller guarantees `low < high`.
    fn sample_exclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Range arguments `RngExt::random_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "random_range: empty range");
        T::sample_exclusive(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        assert!(low <= high, "random_range: empty range");
        T::sample_inclusive(rng, low, high)
    }
}

macro_rules! int_impls {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl Random for $t {
            fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }

        impl SampleUniform for $t {
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                // Span as an unsigned 64-bit count minus one; a full 64-bit
                // span takes the raw word.
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                // Multiply-shift maps the word onto 0..=span; the bias is
                // below 2^-64 per extra value and irrelevant to a load
                // generator.
                let offset = ((rng.next_u64() as u128 * (span as u128 + 1)) >> 64) as u64;
                (low as $wide).wrapping_add(offset as $wide) as $t
            }

            fn sample_exclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                Self::sample_inclusive(rng, low, high - 1)
            }
        }
    )*};
}

int_impls!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

impl Random for bool {
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    /// Uniform in `[0, 1)` with 24 random bits.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl SampleUniform for f64 {
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        low + (high - low) * f64::random(rng)
    }

    fn sample_exclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        let value = low + (high - low) * f64::random(rng);
        // Rounding can land exactly on `high`; step back inside.
        if value < high {
            value
        } else {
            low
        }
    }
}

/// Convenience draws on top of any [`Rng`].
pub trait RngExt: Rng {
    fn random<T: Random>(&mut self) -> T {
        T::random(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "random_bool: p outside [0, 1]");
        f64::random(self) < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

pub mod rngs {
    use super::{Ordering, Rng, SeedableRng, DRAWS};

    /// xoshiro256++ (Blackman & Vigna), state expanded from the seed with
    /// splitmix64 as its authors recommend.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            DRAWS.fetch_add(1, Ordering::Relaxed);
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
    }
}

pub mod seq {
    use super::{Rng, RngExt};

    /// In-place Fisher–Yates shuffle.
    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.random_range(0..=i));
            }
        }
    }
}
